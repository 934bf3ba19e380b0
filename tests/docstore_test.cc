#include "docstore/document_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace quarry::docstore {
namespace {

json::Value Doc(const std::string& kind, int n) {
  json::Object obj;
  obj.emplace_back("kind", json::Value(kind));
  obj.emplace_back("n", json::Value(n));
  return json::Value(std::move(obj));
}

TEST(CollectionTest, InsertAssignsSequentialIds) {
  Collection c("xrq");
  auto id1 = c.Insert(Doc("a", 1));
  auto id2 = c.Insert(Doc("a", 2));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id1, "xrq-1");
  EXPECT_EQ(*id2, "xrq-2");
  EXPECT_EQ(c.size(), 2u);
}

TEST(CollectionTest, InsertHonoursExplicitId) {
  Collection c("xrq");
  json::Value doc = Doc("a", 1);
  doc.Set("_id", json::Value("ir_revenue"));
  auto id = c.Insert(doc);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, "ir_revenue");
  EXPECT_TRUE(c.Insert(doc).status().IsAlreadyExists());
}

TEST(CollectionTest, InsertRejectsNonObjects) {
  Collection c("x");
  EXPECT_TRUE(c.Insert(json::Value(1)).status().IsInvalidArgument());
}

TEST(CollectionTest, GetAndRemove) {
  Collection c("x");
  auto id = c.Insert(Doc("a", 7));
  ASSERT_TRUE(id.ok());
  auto doc = c.Get(*id);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("n")->as_int(), 7);
  EXPECT_TRUE(c.Remove(*id).ok());
  EXPECT_TRUE(c.Get(*id).status().IsNotFound());
  EXPECT_TRUE(c.Remove(*id).IsNotFound());
}

TEST(CollectionTest, UpsertInsertsThenReplaces) {
  Collection c("x");
  ASSERT_TRUE(c.Upsert("k", Doc("a", 1)).ok());
  ASSERT_TRUE(c.Upsert("k", Doc("a", 2)).ok());
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.Get("k")->Find("n")->as_int(), 2);
  EXPECT_EQ(c.Get("k")->GetString("_id"), "k");
}

TEST(CollectionTest, FindByFieldEquality) {
  Collection c("x");
  ASSERT_TRUE(c.Insert(Doc("xmd", 1)).ok());
  ASSERT_TRUE(c.Insert(Doc("xlm", 2)).ok());
  ASSERT_TRUE(c.Insert(Doc("xmd", 3)).ok());
  auto hits = c.Find("kind", json::Value("xmd"));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].Find("n")->as_int(), 1);
  EXPECT_EQ(hits[1].Find("n")->as_int(), 3);
  EXPECT_TRUE(c.Find("kind", json::Value("nope")).empty());
  EXPECT_TRUE(c.Find("ghost_field", json::Value(1)).empty());
}

TEST(DocumentStoreTest, GetOrCreateAndDrop) {
  DocumentStore store;
  Collection* c = store.GetOrCreate("designs");
  EXPECT_EQ(c, store.GetOrCreate("designs"));
  EXPECT_TRUE(store.Get("designs").ok());
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
  EXPECT_EQ(store.CollectionNames(),
            (std::vector<std::string>{"designs"}));
  EXPECT_TRUE(store.Drop("designs").ok());
  EXPECT_TRUE(store.Drop("designs").IsNotFound());
}

TEST(DocumentStoreTest, DropIfEmptyKeepsDocuments) {
  DocumentStore store;
  ASSERT_TRUE(store.GetOrCreate("full")->Upsert("a", Doc("full", 1)).ok());
  store.GetOrCreate("empty");
  store.DropIfEmpty("full");
  store.DropIfEmpty("empty");
  store.DropIfEmpty("absent");
  EXPECT_EQ(store.CollectionNames(), (std::vector<std::string>{"full"}));
}

TEST(DocumentStoreTest, SaveAndLoadDirectory) {
  std::string dir =
      std::filesystem::temp_directory_path() / "quarry_docstore_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DocumentStore store;
  ASSERT_TRUE(store.GetOrCreate("xrq")->Insert(Doc("xrq", 1)).ok());
  ASSERT_TRUE(store.GetOrCreate("xrq")->Insert(Doc("xrq", 2)).ok());
  ASSERT_TRUE(store.GetOrCreate("xmd")->Upsert("unified", Doc("xmd", 3)).ok());
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());

  auto loaded = DocumentStore::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->Get("xrq").ok());
  EXPECT_EQ((*loaded->Get("xrq"))->size(), 2u);
  auto doc = (*loaded->Get("xmd"))->Get("unified");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("n")->as_int(), 3);

  std::filesystem::remove_all(dir);
}

TEST(DocumentStoreTest, SaveToMissingDirectoryFails) {
  DocumentStore store;
  EXPECT_TRUE(store.SaveToDirectory("/nonexistent/quarry").IsNotFound());
  EXPECT_TRUE(
      DocumentStore::LoadFromDirectory("/nonexistent/quarry").status()
          .IsNotFound());
}

}  // namespace
}  // namespace quarry::docstore

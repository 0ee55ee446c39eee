SELECT product.category, SUM(product.brand) AS brands, COUNT(*) AS n
FROM sale, product WHERE sale.productid = product.id GROUP BY product.category
